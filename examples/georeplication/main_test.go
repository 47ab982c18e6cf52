package main

import (
	"io"
	"testing"
)

func TestRun(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
