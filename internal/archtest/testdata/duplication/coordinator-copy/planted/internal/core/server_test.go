package core

type txContext struct{}
