package store

import "sort"

type KeyIter struct{ keys []string }

func (s *Store) KeysFrom(start string) *KeyIter { return &KeyIter{} }

func (it *KeyIter) Next() bool { return refill(it.keys) }

func refill(keys []string) bool {
	sort.Strings(keys) // want
	return len(keys) > 0
}
