package core

import "wren/internal/stripemap" // want

var _ stripemap.Map
