package tcp
