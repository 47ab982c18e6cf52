package sst

import xos "os"

func create(p string) error {
	f, err := xos.Create(p) // want
	if err != nil {
		return err
	}
	_ = xos.Getenv("TMPDIR")
	return f.Close()
}
