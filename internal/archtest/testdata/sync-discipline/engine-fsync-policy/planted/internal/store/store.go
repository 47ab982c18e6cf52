package store

func (s *Store) fsyncLoop() {} // want
