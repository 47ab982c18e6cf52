package main

import "wren/internal/store/fsutil/crashfs" // want

var _ crashfs.FS
