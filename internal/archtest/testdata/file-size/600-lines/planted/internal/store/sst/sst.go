package sst
