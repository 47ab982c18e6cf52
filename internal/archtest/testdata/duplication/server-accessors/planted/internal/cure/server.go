package cure

type Server struct{}

func (srv Server) ShedRequests() uint64 { return 0 } // want
