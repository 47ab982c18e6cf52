package cure

type txContext struct{} // want

// read fan-in, mirroring package core // want
func fanIn() {}
