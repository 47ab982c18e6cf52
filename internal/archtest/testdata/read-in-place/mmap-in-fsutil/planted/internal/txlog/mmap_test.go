package txlog

import "syscall"

var mmap = syscall.Mmap // want
