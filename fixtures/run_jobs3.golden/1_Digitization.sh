#!/bin/sh
export ApplicationVersion=ORCA_8_4_1
export PileupRate=25ns
export inputDataset=oscar_hits_dst
export inputRunNumber=42
export jobIndex=1
echo run Digitization
