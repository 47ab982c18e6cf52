package core // want

import "errors"

func New() error { return errors.New("config") } // want
