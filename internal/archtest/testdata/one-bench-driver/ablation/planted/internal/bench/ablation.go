package bench

func RunAblation() {} // want
