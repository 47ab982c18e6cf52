package bench

type Row struct {
	TxPerS float64 `json:"tx_per_s"` // want
}
