module lera/bench

go 1.22

require lera v0.0.0

replace lera => ../
