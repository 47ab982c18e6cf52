package wire
