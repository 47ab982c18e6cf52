package core

type Server struct{}

func (s *Server) Obs() int { return 0 } // want

func (s *Server) Tick() {}
