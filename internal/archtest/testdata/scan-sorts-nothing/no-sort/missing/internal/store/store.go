package store

import "sort"

func (s *Store) Scan(start, end string) {
	for it := s.KeysFrom(start); it.Next(); {
	}
}

func (s *Store) Compact(keys []string) { sort.Strings(keys) }
