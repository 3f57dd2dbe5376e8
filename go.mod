module graphxmt

go 1.23
