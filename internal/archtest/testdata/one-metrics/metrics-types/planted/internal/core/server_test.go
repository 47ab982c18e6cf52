package core

type testStats struct{}
