package sst

func readBack(r *run, buf []byte) { r.f.ReadAt(buf, 0) }
