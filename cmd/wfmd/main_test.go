package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagsGolden pins the command line: the flag listing `wfmd -h`
// prints must equal testdata/flags.golden byte for byte, which was
// recorded from `wfmd -h` of the release before the flags were bound
// straight into the structs they configure.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("wfmd", flag.ContinueOnError)
	newFlags(fs)
	var got strings.Builder
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("-h changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
