include Quipper.Wide
