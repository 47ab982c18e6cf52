package core

import "errors"

func NewServer() error { return errors.New("config") }
