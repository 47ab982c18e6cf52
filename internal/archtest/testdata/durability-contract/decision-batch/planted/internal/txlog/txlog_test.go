package txlog

var opts = struct{ DisableDecisionBatch bool }{true} // want
