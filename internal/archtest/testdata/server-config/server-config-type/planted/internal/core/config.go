package core

type ServerConfig struct{ Partitions int } // want
