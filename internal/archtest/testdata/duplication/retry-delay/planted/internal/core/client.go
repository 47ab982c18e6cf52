package core

const retryDelay = 5 // want
