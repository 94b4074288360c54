module mvs/bench

go 1.22

require mvs v0.0.0

replace mvs => ../
