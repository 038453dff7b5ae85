module dpgen/benchmark

go 1.22

require dpgen v0.0.0

replace dpgen => ../
