module rpcscale/bench

go 1.24

require rpcscale v0.0.0

replace rpcscale => ../
