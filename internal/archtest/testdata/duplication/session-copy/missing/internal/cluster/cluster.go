package cluster
