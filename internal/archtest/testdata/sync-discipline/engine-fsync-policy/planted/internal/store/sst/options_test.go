package sst

const FsyncAlways = "always" // want
