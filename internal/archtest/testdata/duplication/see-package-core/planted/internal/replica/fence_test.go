package replica

var note = "see package core" // want
