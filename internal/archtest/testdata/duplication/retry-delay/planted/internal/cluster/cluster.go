package cluster

// The client waits retryDelay between rounds. // want
func wait() {}
