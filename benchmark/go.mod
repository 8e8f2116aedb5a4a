module github.com/fusionstore/fusion/benchmark

go 1.22

require github.com/fusionstore/fusion v0.0.0

replace github.com/fusionstore/fusion => ../
