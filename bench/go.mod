module smpigo/bench

go 1.24

require smpigo v0.0.0

replace smpigo => ../
