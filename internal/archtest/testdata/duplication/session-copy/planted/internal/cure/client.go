package cure

import "errors"

var errBusy = errors.New("busy") // want
