package main

var StoreShards = 4 // want

var DefaultStoreShards = 4
