package sst

import "os"

func scratch(p string) { os.Create(p) }
