package sst

type keyHeap []string // want
