module lard/bench

go 1.24

require lard v0.0.0

replace lard => ../
