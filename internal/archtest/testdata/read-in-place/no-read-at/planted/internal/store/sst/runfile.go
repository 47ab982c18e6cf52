package sst

func (r *run) block(buf []byte, off int64) error {
	_, err := r.f.ReadAt(buf, off) // want
	return err
}
