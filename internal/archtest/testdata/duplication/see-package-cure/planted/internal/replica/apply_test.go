package replica

// see package cure // want
