package txlog
