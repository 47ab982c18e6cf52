package core

func cut(tc *testCluster) {
	tc.net.SetDCLinkDown(0, 1, true) // want
	tc.net.Cut(0, 1)
	// A chaos test cuts the link with Cut and Heal.
}
