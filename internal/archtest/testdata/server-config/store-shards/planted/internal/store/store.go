package store

var StoreShards = 4
