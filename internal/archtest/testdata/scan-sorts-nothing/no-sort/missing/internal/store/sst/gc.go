package sst

func (p *gcPass) streamAll() {}
