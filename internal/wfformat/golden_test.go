package wfformat_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wfserverless/internal/sharedfs"
	. "wfserverless/internal/wfformat"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this tree's hashing")

// serviceShaped is the workflow wfmd is sent by the thousand: a root, k
// middle tasks and a leaf under each. As the generators write them, a
// task's files list its output before its inputs, which is not the
// (link, name) order the hashes are taken in.
func serviceShaped(t testing.TB, prefix string, k int) *Workflow {
	t.Helper()
	w := New(prefix)
	task := func(name string, size int64, parent string) {
		bt := BuildTask(name, "synthetic", nil, nil)
		bt.Command.APIURL = "http://127.0.0.1:8080/invoke"
		bt.Command.Arguments[0].Out = map[string]int64{"out_" + name: size}
		bt.Files = []File{{Link: LinkOutput, Name: "out_" + name, SizeInBytes: size}}
		if parent != "" {
			bt.Command.Arguments[0].Inputs = []string{"out_" + parent}
			bt.Files = append(bt.Files, File{Link: LinkInput, Name: "out_" + parent, SizeInBytes: 7})
		}
		if err := w.AddTask(bt); err != nil {
			t.Fatal(err)
		}
		if parent != "" {
			if err := w.Link(parent, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := prefix + "_root"
	task(root, 4096, "")
	for i := 0; i < k; i++ {
		mid := fmt.Sprintf("%s_mid%03d", prefix, i)
		task(mid, int64(100+i), root)
		task(fmt.Sprintf("%s_zleaf%03d", prefix, i), int64(200+i), mid)
	}
	return w
}

// goldenSubjects are the workflows whose hashes are pinned: one recipe
// instance, and one service-shaped workflow to which are added name lists
// out of order, external inputs, and a task whose twenty files hold
// (link, name) ties — past the length to which a sort is an insertion
// sort, so the order among equals is the sort algorithm's.
func goldenSubjects(t testing.TB) []*Workflow {
	svc := serviceShaped(t, "svc", 4)
	root := svc.Tasks["svc_root"]
	root.Children[0], root.Children[3] = root.Children[3], root.Children[0]
	root.Files = append(root.Files, File{Link: LinkInput, Name: "reference.fa", SizeInBytes: 1 << 20})
	wide := svc.Tasks["svc_zleaf002"]
	for i := 0; i < 18; i++ {
		link := LinkInput
		if i%3 == 0 {
			link = LinkOutput
		}
		name := fmt.Sprintf("part_%02d", (i*7)%6)
		wide.Files = append(wide.Files, File{Link: link, Name: name, SizeInBytes: int64(1000 + i)})
		wide.Command.Arguments[0].Inputs = append(wide.Command.Arguments[0].Inputs, name)
		wide.Command.Arguments[0].Out[fmt.Sprintf("extra_%02d", 17-i)] = int64(i)
	}
	return []*Workflow{sevenRecipes(t, 12)[0], svc}
}

func renderFingerprints(t testing.TB) string {
	var b strings.Builder
	for _, w := range goldenSubjects(t) {
		fmt.Fprintf(&b, "%s workflow %s\n", w.Name, Fingerprint(w))
		csr, tasks, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		declared := TaskFingerprints(csr, tasks, nil)
		addressed := TaskFingerprints(csr, tasks, sharedfs.ContentAddress)
		for id, task := range tasks {
			fmt.Fprintf(&b, "%s %s declared %s addressed %s\n", w.Name, task.Name, declared[id], addressed[id])
		}
	}
	return b.String()
}

// TestFingerprintGolden pins the bytes. testdata/fingerprints.golden was
// written by the hashing of the commit before the allocation-free
// digester; every journal header and memo cache on disk holds such
// hashes, and stays valid only while these do not move.
func TestFingerprintGolden(t *testing.T) {
	const path = "testdata/fingerprints.golden"
	got := renderFingerprints(t)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
