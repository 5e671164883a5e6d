#!/bin/sh
export ResourceBroker=rb.example.org
export UserJDLFile=job.jdl
export jobIndex=0
echo run LCG_ResourceBroker
