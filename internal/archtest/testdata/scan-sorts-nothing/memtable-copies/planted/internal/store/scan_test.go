package store

func sortedMemKeys() []string { return nil } // want
