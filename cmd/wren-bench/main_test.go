package main

import (
	"slices"
	"strings"
	"testing"
)

// TestRunRejects covers every way the command line must fail before a
// cluster is built. The retired sweep flags are paired with a valid
// -figure so the failure is the flag parser's, not "no mode given": a
// script that still passes one must not silently run something else.
func TestRunRejects(t *testing.T) {
	const undefined = "flag provided but not defined"
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no mode", nil, "-figure is required"},
		{"retired -read-path", []string{"-figure", "3a", "-read-path"}, undefined},
		{"retired -engines", []string{"-figure", "3a", "-engines", "memory"}, undefined},
		{"retired -txlog", []string{"-figure", "3a", "-txlog"}, undefined},
		{"retired -chaos", []string{"-figure", "3a", "-chaos"}, undefined},
		{"retired -clients", []string{"-figure", "3a", "-clients"}, undefined},
		{"retired -out", []string{"-figure", "3a", "-out", "x"}, undefined},
		{"retired -store-shards", []string{"-figure", "3a", "-store-shards", "64"}, undefined},
		{"retired -ablation", []string{"-figure", "3a", "-ablation", "snapshot-age"}, undefined},
		{"unknown figure", []string{"-figure", "9z"}, `unknown figure "9z"`},
		{"zero threads", []string{"-figure", "3a", "-threads", "0"}, "invalid thread count"},
		{"non-numeric threads", []string{"-figure", "3a", "-threads", "a"}, "invalid thread count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseArgs(t *testing.T) {
	o, figure, err := parseArgs([]string{"-figure", "6a", "-dcs", "2", "-threads", "1, 2", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if figure != "6a" {
		t.Fatalf("figure %q, want 6a", figure)
	}
	if o.DCs != 2 || o.Partitions != 8 || o.Seed != 9 || !slices.Equal(o.Threads, []int{1, 2}) {
		t.Fatalf("options not taken from the flags and the paper defaults: %+v", o)
	}

	// -quick clamps the DC count to the smoke topology's, whatever -dcs says.
	o, figure, err = parseArgs([]string{"-quick", "-dcs", "5", "-figure", "7b"})
	if err != nil {
		t.Fatal(err)
	}
	if o.DCs != 3 {
		t.Fatalf("-quick -dcs 5: DCs = %d, want 3", o.DCs)
	}
	if figure != "7b" || o.Partitions != 4 || !slices.Equal(o.Threads, []int{1, 4}) {
		t.Fatalf("-quick did not select the smoke options: figure %q, %+v", figure, o)
	}
	if o, _, err = parseArgs([]string{"-quick", "-dcs", "2", "-figure", "3a"}); err != nil || o.DCs != 2 {
		t.Fatalf("-quick -dcs 2: DCs = %d, err %v; want 2", o.DCs, err)
	}
}
