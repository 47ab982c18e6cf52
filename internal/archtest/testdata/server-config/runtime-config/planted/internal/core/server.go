package core

func runtimeConfig() {} // want
