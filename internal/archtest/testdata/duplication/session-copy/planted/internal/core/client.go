package core

import w "wren/internal/wire"

func probe() any { return &w.TxStatusReq{} } // want

func busy(m any) bool { _, ok := m.(*w.BusyResp); return ok } // want
