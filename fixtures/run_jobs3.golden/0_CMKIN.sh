#!/bin/sh
export ApplicationName=kine_make_ntuple.exe
export ApplicationVersion=6.133
export HiggsMass=125.0
export TopMass=178.3
export jobIndex=0
export outputFile=cmkin_events.ntpl
echo run CMKIN
