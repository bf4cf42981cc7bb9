"""The gtmarl benchmark; see README.md in this directory."""
