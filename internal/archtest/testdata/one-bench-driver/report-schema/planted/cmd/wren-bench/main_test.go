package main

var row = struct {
	N int `json:"n"` // want
}{}
