package core

var GossipTree bool // want

// Aggregate the children's clocks. // want
func fold() {}
