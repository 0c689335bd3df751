module intellisphere/bench

go 1.22

require intellisphere v0.0.0

replace intellisphere => ../
