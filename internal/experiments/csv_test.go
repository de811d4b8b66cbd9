package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// writeSuites renders suites the way cmd/experiments -csv does: every
// suite appended to one file, each under its own header.
func writeSuites(t *testing.T, suites []*Suite) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, s := range suites {
		if err := WriteCSV(&b, s); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestCSVRoundTrip: WriteCSV -> ReadCSV -> WriteCSV gives back the same
// bytes, for the checked-in campaign (four suites) and for suites
// holding a figure label with a space and no rows at all.
func TestCSVRoundTrip(t *testing.T) {
	campaign, err := os.ReadFile("../../results/campaign.csv")
	if err != nil {
		t.Fatal(err)
	}
	first := writeSuites(t, []*Suite{
		{Figure: "Figure 4", Measurements: []*Measurement{
			{Paradigm: Kn1wPM, Workflow: "BlastRecipe-100-60", Recipe: "blast", Tasks: 60, Group: 1,
				MakespanS: 15.9741, MeanPowerW: 271.234, EnergyJ: 4357.45, MeanCPUCores: 9.4214,
				MaxCPUCores: 24.5, MeanBusyCores: 3.644, MeanMemGB: 2.98991, MaxMemGB: 10.8906,
				ColdStarts: 49, Requests: 60, Failures: 1, ScaleStalls: 2},
			{Paradigm: LC1wPM, Workflow: "BwaRecipe-100-60", Recipe: "bwa", Tasks: 60, Group: 1, MakespanS: 7},
		}},
		{Figure: "empty"},
		{Figure: "Figure7", Measurements: []*Measurement{{Paradigm: Kn10wNoPM, Recipe: "cycles", Tasks: 120, Group: 2}}},
	})
	for name, file := range map[string][]byte{"campaign.csv": campaign, "synthetic": first} {
		suites, err := ReadCSV(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := writeSuites(t, suites); !bytes.Equal(again, file) {
			t.Errorf("%s: round trip changed the bytes:\n--- got\n%s--- want\n%s", name, again, file)
		}
	}
	suites, _ := ReadCSV(bytes.NewReader(first))
	if len(suites) != 3 || suites[0].Figure != "Figure4" || len(suites[0].Measurements) != 2 ||
		len(suites[1].Measurements) != 0 || suites[2].Measurements[0].Group != 2 {
		t.Fatalf("suites = %+v", suites)
	}
}

// TestReadCSVConcatenatedSuites: files appended one after another read
// back as every suite of each, each repeated header opening a new suite.
func TestReadCSVConcatenatedSuites(t *testing.T) {
	campaign, err := os.ReadFile("../../results/campaign.csv")
	if err != nil {
		t.Fatal(err)
	}
	count := func(in []byte) (suites, rows int) {
		ss, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			rows += len(s.Measurements)
		}
		return len(ss), rows
	}
	suites, rows := count(campaign)
	if suites == 0 || rows == 0 {
		t.Fatalf("campaign.csv read as %d suites, %d rows", suites, rows)
	}
	if s2, r2 := count(append(append([]byte{}, campaign...), campaign...)); s2 != 2*suites || r2 != 2*rows {
		t.Fatalf("concatenated campaign = %d suites, %d rows; want %d, %d", s2, r2, 2*suites, 2*rows)
	}
}

// TestReadCSVBadField: a malformed row is an error naming its first bad
// field, the same one on every read.
func TestReadCSVBadField(t *testing.T) {
	header := strings.Join(csvHeader, ",") + "\n"
	bad := header + "F,P,W,R,notanint,x,1,y,1,1,1,1,1,1,z,1,1,1\n"
	for i := 0; i < 20; i++ {
		_, err := ReadCSV(strings.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "field tasks:") {
			t.Fatalf("read %d: err = %v, want one naming field tasks", i, err)
		}
	}
	for name, in := range map[string]string{
		"short row":         header + "F,P,W\n",
		"row before header": "F,P,W,R,1,1,1,1,1,1,1,1,1,1,1,1,1,1\n",
		"second figure":     header + "F,P,W,R,1,1,1,1,1,1,1,1,1,1,1,1,1,1\nG,P,W,R,1,1,1,1,1,1,1,1,1,1,1,1,1,1\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
