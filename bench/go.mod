module webtextie/bench

go 1.24

require webtextie v0.0.0

replace webtextie => ../
