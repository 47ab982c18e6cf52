module wren/benchmark

go 1.24

require wren v0.0.0

replace wren => ../
