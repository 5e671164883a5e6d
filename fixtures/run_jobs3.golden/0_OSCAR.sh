#!/bin/sh
export ApplicationVersion=OSCAR_3_6_5
export ECal=On
export ECalThreshold=0.06
export HCal=On
export inputFile=cmkin_events.ntpl
export jobIndex=0
export outputDataset=oscar_hits_dst
export outputRunNumber=42
echo run OSCAR
