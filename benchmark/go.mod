module dhtindex/benchmark

go 1.22

require dhtindex v0.0.0

replace dhtindex => ../
