package core

type Metrics struct{ s *Server }
