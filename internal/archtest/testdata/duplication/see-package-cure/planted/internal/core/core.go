package core

/*
The vector side of this: see package cure. // want
*/
