package main

// runtimeConfig(cfg) copied every knob. // want
